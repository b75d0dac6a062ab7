"""The benchmark's workloads: inputs made from the seed, one pass of the
user-facing command, and the check of each pass's output against the truth.

fill-dense and fill-sparse run ``abacfill predict`` on a generated policy
with some known cells hidden.  sweep runs ``abacfill evaluate``, which
generates, hides and scores on its own; its output carries the truth of
every hidden cell.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

# fill-dense hides only 50 cells per policy, so its coverage moves a lot with
# the hidden draw; a run cycles through `draws` hidden draws of one policy and
# pools coverage over them
FILL = {
    "fill-dense": {
        "full": {"template": "university", "scale": 20, "percent": 6, "draws": 6},
        "smoke": {"template": "university", "scale": 4, "percent": 6, "draws": 2},
    },
    "fill-sparse": {
        "full": {"template": "project", "scale": 60, "percent": 30, "draws": 1},
        "smoke": {"template": "project", "scale": 6, "percent": 30, "draws": 1},
    },
}
SWEEP = {
    "full": {"template": "university", "scales": "4,6,8", "percents": "3,6,9", "runs": 5},
    "smoke": {"template": "university", "scales": "2,3", "percents": "6", "runs": 2},
}
NAMES = ("fill-dense", "fill-sparse", "sweep")


@dataclass
class PassResult:
    digest: str
    hidden: int
    predicted: int
    correct: int
    error: str = ""


def _digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class FillWorkload:
    """``abacfill predict`` on one generated policy, with `draws` hidden-cell
    draws made from the seed; pass k predicts draw k mod draws."""

    def __init__(self, abac, name, size, seed, workdir):
        self.abac = abac
        self.spec = FILL[name][size]
        self.seed = seed
        self.workdir = workdir
        self.draws = self.spec["draws"]
        self.jobs = 1
        self.inputs = []  # (policy path, entitlements path, {(side, id, attr): truth})

    def describe(self) -> str:
        s = self.spec
        return (f"abacfill predict, {s['template']} scale {s['scale']}, {s['percent']}% hidden, "
                f"{self.draws} draw(s)")

    def set_up(self) -> None:
        generator, harness, policy_io = self.abac.generator, self.abac.harness, self.abac.policy_io
        s = self.spec
        policy = generator.generate(
            generator.GeneratorConfig(template=s["template"], scale=s["scale"], seed=self.seed)
        )
        entitlements = generator.reference_entitlements(policy)
        ents_path = os.path.join(self.workdir, "entitlements.csv")
        policy_io.save_entitlements(entitlements, ents_path)
        self.schema = policy.model.schema
        for k in range(self.draws):
            rng = random.Random(self.seed * 1000 + k)
            removed = harness.remove_cells(policy.model, s["percent"] / 100.0, rng)
            path = os.path.join(self.workdir, f"policy-{k}.json")
            policy_io.save_policy(policy, path)
            harness.restore_cells(policy.model, removed)
            truth = {(side, oid, attr): value for side, oid, attr, value in removed}
            self.inputs.append((path, ents_path, truth))

    def input_of(self, k: int) -> int:
        return k % self.draws

    def run_pass(self, k: int) -> PassResult:
        policy_path, ents_path, truth = self.inputs[self.input_of(k)]
        out = os.path.join(self.workdir, f"predict-{self.input_of(k)}.json")
        rc = self.abac.cli.main(
            ["predict", "--policy", policy_path, "--entitlements", ents_path, "--out", out]
        )
        if rc != 0:
            return PassResult("", len(truth), 0, 0, f"abacfill predict exited {rc}")
        with open(out, "r", encoding="utf-8") as fh:
            rows = json.load(fh)["predictions"]
        return self._score(rows, truth, _digest(out))

    def _score(self, rows, truth, digest) -> PassResult:
        side_of = {s.value: s for s in self.abac.Side}
        seen = set()
        predicted = correct = 0
        for row in rows:
            key = (side_of[row["side"]], row["object"], row["attr"])
            if key not in truth or key in seen:
                return PassResult(digest, len(truth), 0, 0, f"unexpected prediction row {key}")
            seen.add(key)
            if row["confidence"] == "NEI":
                continue
            predicted += 1
            kind = self.schema.kind(key[0], key[2])
            value = frozenset(row["value"]) if isinstance(row["value"], list) else row["value"]
            if self.abac.harness.score_prediction(kind, value, truth[key]):
                correct += 1
        if len(seen) != len(truth):
            return PassResult(digest, len(truth), predicted, correct,
                              f"{len(truth) - len(seen)} hidden cells have no prediction row")
        return PassResult(digest, len(truth), predicted, correct)


class SweepWorkload:
    """``abacfill evaluate`` over a small removal grid, CSV and JSON to files."""

    def __init__(self, abac, size, seed, workdir):
        self.abac = abac
        self.spec = SWEEP[size]
        self.seed = seed
        self.workdir = workdir
        self.draws = 1
        # the sweep's threads are the only ones the benchmark starts itself
        self.jobs = min(2, os.cpu_count() or 1)

    def describe(self) -> str:
        s = self.spec
        return (f"abacfill evaluate, {s['template']} scales {s['scales']}, percents {s['percents']}, "
                f"{s['runs']} runs, --jobs {self.jobs}")

    def set_up(self) -> None:
        pass  # evaluate generates its own policies, inside the pass

    def input_of(self, k: int) -> int:
        return 0

    def run_pass(self, k: int) -> PassResult:
        s = self.spec
        csv_path = os.path.join(self.workdir, "sweep.csv")
        json_path = os.path.join(self.workdir, "sweep.json")
        rc = self.abac.cli.main([
            "evaluate", "--template", s["template"], "--scales", s["scales"],
            "--percents", s["percents"], "--runs", str(s["runs"]), "--jobs", str(self.jobs),
            "--seed", str(self.seed), "--csv", csv_path, "--json", json_path,
        ])
        if rc != 0:
            return PassResult("", 0, 0, 0, f"abacfill evaluate exited {rc}")
        with open(json_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return self._score(doc, _digest(csv_path, json_path))

    def _score(self, doc, digest) -> PassResult:
        AttrKind, score = self.abac.AttrKind, self.abac.harness.score_prediction
        hidden = predicted = correct = 0
        for run in doc["detail"]:
            for cell in run["cells"]:
                hidden += 1
                if cell["verdict"] == "NEI":
                    continue
                predicted += 1
                truth, value = cell["truth"], cell["predicted"]
                if isinstance(truth, list):
                    ok = score(AttrKind.MULTI, frozenset(value), frozenset(truth), doc["subset_scoring"])
                else:
                    ok = score(AttrKind.SINGLE, value, truth, doc["subset_scoring"])
                if ok != (cell["verdict"] == "Correct"):
                    return PassResult(digest, hidden, predicted, correct,
                                      f"verdict {cell['verdict']} disagrees with the truth "
                                      f"of {cell['object']}.{cell['attr']}")
                correct += ok
        return PassResult(digest, hidden, predicted, correct)


def make(abac, name, size, seed, workdir):
    if name == "sweep":
        return SweepWorkload(abac, size, seed, workdir)
    return FillWorkload(abac, name, size, seed, workdir)
